"""Parity between the lane routes and the one-lane routes.

The lane engine (``simulate_lanes``, used by ``run_experiment``) steps many
streams together; the scalar loop (``_k.sim_path``, behind ``simulate_path``
for paths with a kernel) runs one. The block sampler (``poisson_sample``
and kernel-free ``simulate_path``) draws one constant-rate stream with the
lanes' rejection kernel or a search of the rate's CDF table. The scalar
loop is the oracle: every lane and every block must reproduce it bit for
bit, including the step at which a lane's intensity overflows.

The stacked fit (``fit_lanes``) builds and solves the designs of many
count paths together; ``build_design`` and ``solve_cls`` fit one. Every
lane's design, estimate and failure must equal the one-lane call's.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def test_no_lanes():
    counts, overflow_at = simulate_lanes(ModelParams(nu=100.0, kernel=(0.5,)), 7, 1, [])
    assert counts.shape == (7, 0) and overflow_at.shape == (0,)


def test_first_observation_checked_against_cap():
    counts, overflow_at = simulate_lanes(ModelParams(nu=50.0), 5, 1, range(4), 49.0)
    assert np.all(overflow_at == 0) and not counts.any()


@pytest.mark.parametrize("nu, kernel, T", [
    (1e19, (0.3,), 4),        # every lane overflows at step 1
    (5e18, (0.9,), 4),        # step 2, once the kernel adds 0.9 of step 1
    (2.0 ** 63, (), 3),       # i.i.d. draws about 2**63: mixed steps, one lane never
])
def test_counts_beyond_int64_overflow_lanes(nu, kernel, T):
    # A count of 2**63 or more ends its lane as an intensity overflow does,
    # at the step simulate_path's Overflow names; earlier counts are kept.
    params = ModelParams(nu=nu, kernel=kernel)
    counts, overflow_at = simulate_lanes(params, T, 3, range(12), 1e300)
    for j in range(12):
        step = int(overflow_at[j])
        if step < 0:
            path = inar.simulate_path(params, T, RngStream(3, j), 1e300)
            assert np.array_equal(counts[:, j], path.counts)
            continue
        with pytest.raises(Overflow, match=f"count at step {step + 1} does not fit in int64$"):
            inar.simulate_path(params, T, RngStream(3, j), 1e300)
        x, _ = scalar_path(params, T, 3, j, 1e300)
        assert np.array_equal(counts[:step, j], x[:step])
        assert not counts[step:, j].any()
    assert np.count_nonzero(overflow_at >= 0) >= 11
    if nu == 2.0 ** 63:
        assert len(set(overflow_at.tolist())) == 4


def test_poisson_draws_bit_identical():
    # Without a kernel each lane is an i.i.d. stream: the scalar loop's draws.
    for lam in (0.5, 3.0, 9.99, 10.0, 150.0, 2e5):
        counts, _ = simulate_lanes(ModelParams(nu=lam), 64, 5, range(6))
        for j in range(6):
            want, _ = counted_draws(lam, RngStream(5, j).state(), 64)
            assert counts[:, j].tolist() == want


def counted_draws(lam, key, n):
    """The one-stream sampler's first n draws at rate lam on ``key``, and
    the number of uniforms it has read after each."""
    gen = _k._stream_uniforms(key)
    used = []

    def uniform():
        used[-1] += 1
        return next(gen)

    draws = []
    for _ in range(n):
        used.append(used[-1] if used else 0)
        draws.append(_k._poisson_draw(lam, uniform))
    return draws, used


def test_ptrs_passes_match_oracle():
    # Near lam = 10 about 0.4% of PTRS draws reject every round of a
    # pass, so 500 lanes x 20 steps send some lanes to further passes.
    # Each lane has its own rate, so a log test on another lane's
    # parameters shows, and after every step each lane's state must sit
    # exactly as many counters past its key as the scalar loop has read.
    n_lanes, n_steps = 500, 20
    keys = _k.stream_keys(9, range(n_lanes))
    lam = 10.0 + np.arange(n_lanes) / n_lanes
    state = keys.copy()
    logfact = _k._LogFactorials()
    got, states = [], []
    for _ in range(n_steps):
        got.append(_k._poisson_lanes(lam, state, logfact))
        states.append(state.copy())
    want, used = zip(*(counted_draws(lam[j], keys[j : j + 1], n_steps) for j in range(n_lanes)))
    assert np.array_equal(np.array(got), np.array(want).T)
    used = np.array(used, dtype=np.uint64).T
    assert np.array_equal(np.array(states), keys + used * _k._GOLDEN)
    rounds = np.diff(used, axis=0, prepend=np.uint64(0)) // 2
    assert np.count_nonzero(rounds > _k._PTRS_ROUNDS) >= 5

    # The same through the public calls, one rate for every lane.
    counts, _ = simulate_lanes(ModelParams(nu=10.0), n_steps, 9, range(n_lanes))
    for j in range(n_lanes):
        assert np.array_equal(counts[:, j], inar.poisson_sample(10.0, RngStream(9, j), size=n_steps))


constant_rates = st.one_of(
    st.sampled_from([0.0, 10.0]),
    st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
    st.floats(10.0, 2e5),
)
# Small calls, and sizes around the block sampler's edges: inversion blocks
# hold B draws; PTRS blocks hold B rounds, and the first block is sized to
# 4/3 of the draws requested, so it reaches B from about 3B/4 draws on.
B = _k._STREAM_BLOCK
stream_sizes = st.one_of(
    st.integers(0, 40),
    st.sampled_from([B * 3 // 4 - 8, B * 3 // 4, B - 1, B, B + 1, 2 * B + 1, 40000]),
)


@settings(max_examples=40, deadline=None)
@given(
    lam=constant_rates,
    n=stream_sizes,
    seed=st.integers(-(2 ** 63), 2 ** 64 - 1),
    stream_id=st.integers(0, 2 ** 64 - 1),
)
@example(lam=3.0, n=B + 1, seed=2 ** 64 - 1, stream_id=0)
@example(lam=9.999999, n=B, seed=11, stream_id=2 ** 64 - 1)
@example(lam=10.0, n=B * 3 // 4, seed=-1, stream_id=7)
@example(lam=150.0, n=40000, seed=11, stream_id=0)
@example(lam=2e5, n=2 * B + 1, seed=5, stream_id=3)
def test_constant_rate_stream_matches_scalar_loop(lam, n, seed, stream_id):
    rng = RngStream(seed, stream_id)
    want, _ = counted_draws(lam, rng.state(), n)
    got = inar.poisson_sample(lam, rng, size=n)
    assert got.dtype == np.int64 and got.tolist() == want


def test_stream_prefixes_match_scalar_loop():
    # The first block is sized to the draws requested, so small calls run
    # short blocks and often a second one; every prefix length must still
    # end on the scalar loop's draws. Near lam = 10 about one round in
    # eight needs the log test.
    for stream_id in range(100):
        rng = RngStream(3, stream_id)
        want, _ = counted_draws(10.0, rng.state(), 12)
        for n in range(1, 13):
            assert inar.poisson_sample(10.0, rng, size=n).tolist() == want[:n]


@pytest.mark.parametrize("lam", [1e-300, 0.4, 3.0, 9.99, 9.999999])
def test_inversion_table_ends_match_scalar_search(lam):
    # The block sampler searches F_0..F_m, stopped once F cannot move; the
    # scalar loop searches on to its cap of 200. Both must draw alike at
    # the smallest uniform, at both ends of the table, just past its end
    # and at the largest uniform. At 9.99 the table ends below 1 - 2**-53,
    # so the uniforms past it draw the cap; at the other rates it ends at 1.
    table = _k._inversion_table(lam)
    edges = [2.0 ** -53, table[0], table[-1], np.nextafter(table[-1], 1.0), 1.0 - 2.0 ** -53]
    got = np.empty(len(edges), dtype=np.int64)
    _k._inversion_search(table, np.array(edges), got)
    want = [_k._poisson_draw(lam, lambda u=float(u): u) for u in edges]
    assert got.tolist() == want
    assert [k == 200 for k in want] == [u > table[-1] for u in edges]
    assert (want[-1] == 200) == (lam == 9.99)


def test_shared_log_factorials_across_threads(monkeypatch):
    # The block sampler shares its log k! table between calls and nothing
    # else. Threads that grow the table at once, each to a different size,
    # must each draw the scalar loop's values; their draws span several
    # blocks, so block state shared between calls would show too.
    rates = [1e3 * 2 ** j for j in range(6)]
    want = [counted_draws(lam, RngStream(4, j).state(), 20000)[0] for j, lam in enumerate(rates)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(_k, "_STREAM_LOGFACT", _k._LogFactorials())
            with ThreadPoolExecutor(max_workers=len(rates)) as pool:
                futures = [
                    pool.submit(inar.poisson_sample, lam, RngStream(4, j), 20000)
                    for j, lam in enumerate(rates)
                ]
                got = [f.result(timeout=60).tolist() for f in futures]
            assert got == want
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=40, deadline=None)
@given(
    nu=constant_rates,
    kernel=st.sampled_from([(), (0.0,), (0.0, 0.0, 0.0)]),
    T=st.one_of(st.integers(1, 40), st.sampled_from([B, B + 1])),
    seed=st.integers(-(2 ** 63), 2 ** 64 - 1),
    stream_id=st.integers(0, 2 ** 64 - 1),
    cap=st.floats(0.0, 3e5),
)
@example(nu=3.0, kernel=(), T=2 * B + 1, seed=1, stream_id=2, cap=1e9)
@example(nu=150.0, kernel=(0.0,), T=2 * B + 1, seed=1, stream_id=2, cap=1e9)
@example(nu=150.0, kernel=(), T=5, seed=1, stream_id=2, cap=149.0)
def test_kernel_free_path_matches_scalar_loop(nu, kernel, T, seed, stream_id, cap):
    params = ModelParams(nu=nu, kernel=kernel)
    x, step = scalar_path(params, T, seed, stream_id, cap)
    if step >= 0:
        with pytest.raises(Overflow, match="at step 1$"):
            inar.simulate_path(params, T, RngStream(seed, stream_id), cap)
        return
    path = inar.simulate_path(params, T, RngStream(seed, stream_id), cap)
    assert path.counts.tolist() == x.tolist()


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


@pytest.mark.parametrize("lam", [10.0, 37.3, 150.0, 1e4])
def test_block_tie_recheck_matches_oracle(monkeypatch, lam):
    # The same on the block sampler, whose constants are floats shared by
    # every cell; more draws than one block holds rounds.
    monkeypatch.setattr(_k, "_TIE", np.inf)
    n = B + 500
    for stream_id in (0, 1):
        rng = RngStream(11, stream_id)
        uniform = _k._stream_uniforms(rng.state()).__next__
        want = [_k._poisson_draw(lam, uniform) for _ in range(n)]
        assert inar.poisson_sample(lam, rng, size=n).tolist() == want


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
