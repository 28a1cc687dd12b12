"""Parity between the lane routes and the one-lane routes.

The lane engine (``simulate_lanes``, used by ``run_experiment``) steps many
streams together; the scalar loop (``_k.sim_path``, behind ``simulate_path``
for paths with a kernel) runs one. The block sampler (``poisson_sample``
and kernel-free ``simulate_path``) draws one constant-rate stream with the
lanes' inversion and rejection kernels at a float rate. The scalar
loop is the oracle: every lane and every block must reproduce it bit for
bit, including the step at which a lane's intensity overflows. Every route
bounds a path's rates by min(lambda_cap, largest double below 2**62), so
its draws fit in int64; the oracle runs under the same bound.

The stacked fit (``fit_lanes``) builds and solves the designs of many
count paths together; ``build_design`` and ``solve_cls`` fit one. Every
lane's design, estimate and failure must equal the one-lane call's.
"""

import hashlib
import math
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


# The largest rate any route draws at: min(cap, RATE_BOUND) bounds a path.
RATE_BOUND = math.nextafter(2.0 ** 62, 0.0)


def scalar_path(params, T, seed, stream_id, cap):
    """The one-lane loop under the rate bound: (counts, 0-based overflow
    step or -1)."""
    key = RngStream(seed, stream_id).state()
    return _k.sim_path(params.nu, params.kernel_array(), T, min(float(cap), RATE_BOUND), key)


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
    cap=st.floats(0.0, 600.0, exclude_min=True),
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


# The Overflow of a rate past the bound names the bound, not the cap.
BOUND_OVERFLOW = r"^intensity exceeded cap 4\.61169e\+18 at step {}$"


@pytest.mark.parametrize("nu, kernel, T", [
    (1e19, (0.3,), 4),
    (5e18, (0.9,), 4),
    (2.0 ** 63, (), 3),
])
def test_counts_beyond_int64_overflow_lanes(nu, kernel, T):
    # Rates whose counts may pass 2**63 pass a cap of 1e300 but not the
    # bound: every lane ends at step 1 as an intensity overflow, as the
    # scalar loop under the bound does, and simulate_path names the bound.
    params = ModelParams(nu=nu, kernel=kernel)
    overflow_at = assert_lanes_match(params, T, 3, range(12), 1e300)
    assert np.all(overflow_at == 0)
    with pytest.raises(Overflow, match=BOUND_OVERFLOW.format(1)):
        inar.simulate_path(params, T, RngStream(3, 0), 1e300)


def test_rate_crosses_the_bound_at_step_2():
    # 3e18 draws about 3e18, so step 2's rate is about 5.7e18, past the
    # bound: simulate_path, the lanes and the study all stop there.
    params = ModelParams(nu=3e18, kernel=(0.9,))
    overflow_at = assert_lanes_match(params, 4, 3, range(12), 1e300)
    assert np.all(overflow_at == 1)
    with pytest.raises(Overflow, match=BOUND_OVERFLOW.format(2)):
        inar.simulate_path(params, 4, RngStream(3, 1), 1e300)
    study = dict(params=params, p=0, n_experiments=12, base_seed=3, lam_cap=1e300)
    assert inar.run_experiment(inar.McConfig(T=1, **study)).failures == 0
    with pytest.raises(inar.AllReplicationsFailed, match="0 singular designs, 12 intensity"):
        inar.run_experiment(inar.McConfig(T=2, **study))


# sha256 prefixes of the counts of a path (T = 200, seed 7, stream 1) and of
# 200 lanes (T = 50, seed 7, streams 0..199) at rates just below the bound,
# under a cap of 1e300, recorded with the earlier code that checked each
# count for int64 instead of bounding the rate: no draw below the bound
# moved. The kernel-free path is the block sampler's; the other, the scalar
# loop's, has rates about 4e18.
BELOW_BOUND_DIGESTS = {
    "nu=4e18": (ModelParams(nu=4e18), "ae7437f04792a194", "711bd3c7ffc27226"),
    "nu=4.6e18": (ModelParams(nu=4.6e18), "80da16747e977f64", "e5ff446505a4ee52"),
    "nu=2e18,lags:[0.5]": (ModelParams(nu=2e18, kernel=(0.5,)),
                           "4265588c15262901", "7377d0bb58c49172"),
}


@pytest.mark.parametrize("case", sorted(BELOW_BOUND_DIGESTS))
def test_below_bound_digests(case):
    params, path_digest, lanes_digest = BELOW_BOUND_DIGESTS[case]
    path = inar.simulate_path(params, 200, RngStream(7, 1), 1e300)
    counts, overflow_at = simulate_lanes(params, 50, 7, range(200), 1e300)
    assert np.all(overflow_at == -1)
    assert hashlib.sha256(path.counts.tobytes()).hexdigest()[:16] == path_digest
    assert hashlib.sha256(counts.tobytes()).hexdigest()[:16] == lanes_digest


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
    # One draw attempt per lane per pass: near lam = 10 a PTRS round
    # rejects about one time in four, so over 500 lanes x 20 steps some
    # lane-steps take more than three rounds, each a pass of its own. Each
    # lane has its own rate, so a log test on another lane's parameters
    # shows, and after each of its draws a lane's state must sit exactly
    # as many counters past its key as the scalar loop has read.
    n_lanes, n_steps = 500, 20
    keys = _k.stream_keys(9, range(n_lanes))
    lam = 10.0 + np.arange(n_lanes) / n_lanes
    state = keys.copy()
    got = np.zeros((n_steps, n_lanes))
    states = np.zeros((n_steps, n_lanes), dtype=np.uint64)
    step = np.zeros(n_lanes, dtype=np.intp)
    while step.min() < n_steps:
        draw, accept = _k._attempt(lam, state)
        lanes = np.flatnonzero(accept & (step < n_steps))
        got[step[lanes], lanes] = draw[lanes]
        states[step[lanes], lanes] = state[lanes]
        step[lanes] += 1
    want, used = zip(*(counted_draws(lam[j], keys[j : j + 1], n_steps) for j in range(n_lanes)))
    assert np.array_equal(got, np.array(want).T)
    used = np.array(used, dtype=np.uint64).T
    assert np.array_equal(states, keys + used * _k._GOLDEN)
    rounds = np.diff(used, axis=0, prepend=np.uint64(0)) // 2
    assert np.count_nonzero(rounds > 3) >= 5

    # The same through the public calls, one rate for every lane.
    counts, _ = simulate_lanes(ModelParams(nu=10.0), n_steps, 9, range(n_lanes))
    for j in range(n_lanes):
        assert np.array_equal(counts[:, j], inar.poisson_sample(10.0, RngStream(9, j), size=n_steps))


def test_ptrs_retries_match_scalar_loop(monkeypatch):
    # Near lam = 10 a round rejects about one time in four, so on 1000
    # lanes over 50 steps many lanes retry their step on later passes,
    # some for three passes or more. Every lane must still be the scalar
    # path. The passes' acceptances give each lane-step's rounds: the
    # rates stay above 10, so every pass makes one PTRS round on every
    # lane, and a lane's first 50 acceptances are its steps.
    passes = []
    ptrs_round = _k._ptrs_round

    def round_(*args):
        draw, accept = ptrs_round(*args)
        passes.append(accept)
        return draw, accept

    monkeypatch.setattr(_k, "_ptrs_round", round_)
    overflow_at = assert_lanes_match(ModelParams(nu=10.5, kernel=(0.05,)), 50, 11,
                                     range(1000), 1e9)
    assert np.all(overflow_at == -1)
    accepted = np.array(passes)
    assert accepted.shape[1] == 1000 and np.all(accepted.sum(axis=0) >= 50)
    rounds = [np.diff(np.flatnonzero(lane)[:50], prepend=-1) for lane in accepted.T]
    assert max(r.max() for r in rounds) >= 4
    assert sum(np.count_nonzero(r >= 4) for r in rounds) >= 5


# Kernels of no lag (a constant rate), one lag, and up to 19 lags.
block_kernels = st.one_of(
    st.just([]),
    st.lists(st.floats(0.0, 0.9), min_size=1, max_size=1),
    st.lists(st.floats(0.0, 0.06), min_size=2, max_size=19).filter(lambda k: sum(k) < 0.95),
)


@settings(max_examples=80, deadline=None)
# Stationary mean 667 against the median peak (687): 30 of the 60 lanes
# overflow, at steps 40-98, most of them in the middle of a block of 4
# passes, and the other 30 finish on the block route after them.
@example(nu=20.0, kernel=[0.97], lanes=60, T=100, cap_at=0.5, passes=4, seed=11)
@given(
    nu=st.sampled_from([9.99, 10.0]) | st.floats(10.0, 400.0),
    kernel=block_kernels,
    lanes=st.integers(2, 60),
    T=st.integers(1, 150),
    cap_at=st.none() | st.floats(0.0, 1.0),
    passes=st.integers(1, 9),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_block_route_matches_scalar_loop(nu, kernel, lanes, T, cap_at, passes, seed):
    # At nu >= 10 the lanes draw their rounds' uniforms in blocks of passes;
    # the budget is patched down to ``passes`` passes per block, so a path
    # spans many blocks. The cap is the cap_at quantile of the lanes' peak
    # rates on their uncapped paths, so the lanes above it stop at the
    # first step their rate crosses it, most of them in the middle of a
    # block, and draw on at nu, still on the block route, while the others
    # go on to their last step. 9.99 never takes the block route, and 10.0
    # does.
    params = ModelParams(nu=nu, kernel=tuple(kernel))
    cap = 1e300
    if cap_at is not None:
        # The rate at step n is nu + sum_k kernel[k-1] x[n-k], nu at n = 0
        # (a zero lag appended, so that no kernel is empty).
        kern = np.append(params.kernel_array(), 0.0)
        paths = (scalar_path(params, T, seed, sid, cap)[0] for sid in range(lanes))
        peaks = [nu + np.convolve(x, kern)[: T - 1].max(initial=0.0) for x in paths]
        cap = float(np.quantile(peaks, cap_at))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_k, "_PASS_BLOCK_VALUES", 2 * lanes * passes)
        assert_lanes_match(params, T, seed, range(lanes), cap)


@pytest.mark.parametrize("nu, kernel, cap", [
    (300.0, (), 200.0),  # nu >= 10, a constant rate
    (6.0, (0.5,), 5.0),  # nu < 10
    (1e308, (0.5,), 1e9),  # a rate at which no PTRS round can be made
])
def test_every_lane_overflows_at_step_0(nu, kernel, cap):
    # At nu > cap the first rate of every lane is over the cap, on either
    # side of nu = 10: every lane overflows at step 0, and its counts are
    # all 0.
    overflow_at = assert_lanes_match(ModelParams(nu=nu, kernel=kernel), 20, 11, range(50), cap)
    assert np.all(overflow_at == 0)


def test_last_lanes_stop_by_overflow():
    # Stationary mean 667 against a cap of 500: all 10 lanes overflow, at
    # steps 34-78, so the last lane on its steps stops by overflow. With one
    # pass per block, the block after that pass has no pass that a lane
    # still needs, and still gets one row.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_k, "_PASS_BLOCK_VALUES", 2 * 10)
        overflow_at = assert_lanes_match(ModelParams(nu=20.0, kernel=(0.97,)), 100, 11,
                                         range(10), 500.0)
    assert np.all(overflow_at > 0)


@pytest.mark.parametrize("T, cap", [(50, 400.0), (100, 500.0)])
def test_finished_lanes_never_flagged(T, cap):
    # Stationary mean 20 / 0.03 = 667 against a cap of 400 or 500: most
    # lanes overflow, and the lanes that hold all T counts first go on
    # drawing past their last step, at rates that cross the cap. Only the
    # lanes still on their steps are checked against it.
    overflow_at = assert_lanes_match(ModelParams(nu=20.0, kernel=(0.97,)), T, 11,
                                     range(1000), cap)
    assert 0 < np.count_nonzero(overflow_at >= 0) < 1000


@settings(max_examples=100, deadline=None)
@given(
    nu=st.floats(0.0, 1e18),
    kernel=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=25),
    lanes=st.integers(2, 1200),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_rate_sum_in_scalar_order(nu, kernel, lanes, seed):
    # The lane engine's rate is one multiply of the kernel with a block of
    # its history window and one add.reduce down the lags from nu: the
    # scalar loop's sum nu + kern[0] x_1 + kern[1] x_2 + ..., in that
    # order, bit for bit. Counts spanning 18 orders of magnitude make any
    # other order round differently. numpy sums a single column pairwise,
    # after the sum and then nu, so one lane runs the scalar loop instead.
    rng = np.random.default_rng(seed)
    klen = len(kernel)
    kern = np.array(kernel)
    window = np.zeros((klen + 8, lanes))
    window[3 : 3 + klen] = np.floor(10.0 ** rng.uniform(0.0, 18.0, (klen, lanes)))
    prod = np.empty((klen, lanes))
    lam = np.empty(lanes)
    np.multiply(kern[:, None], window[3 : 3 + klen], out=prod)
    np.add.reduce(prod, axis=0, out=lam, initial=nu)
    want = []
    for i in range(lanes):
        rate = nu
        for k in range(klen):
            rate += kernel[k] * window[3 + k, i]
        want.append(rate)
    assert lam.tolist() == want


def test_one_kernel_free_lane_is_the_block_sampler(monkeypatch):
    # A single kernel-free path takes the block sampler through every
    # entry: simulate_lanes on one stream and a one-replication study
    # match simulate_path and poisson_sample bit for bit, with the scalar
    # loop hooked to raise. Zero lags are a zero kernel.
    def scalar_loop(*args):
        raise AssertionError("the scalar loop ran")

    monkeypatch.setattr(_k, "sim_path", scalar_loop)
    for nu, kernel in ((3.0, ()), (150.0, (0.0, 0.0))):
        params = ModelParams(nu=nu, kernel=kernel)
        draws = inar.poisson_sample(nu, RngStream(7, 1), size=300)
        path = inar.simulate_path(params, 300, RngStream(7, 1))
        counts, overflow_at = simulate_lanes(params, 300, 7, [1])
        assert overflow_at.tolist() == [-1]
        assert path.counts.tobytes() == draws.tobytes()
        assert counts[:, 0].tobytes() == path.counts_float().tobytes()
        summary = inar.run_experiment(
            inar.McConfig(params=params, T=300, p=2, n_experiments=1, base_seed=7))
        theta = inar.solve_cls(inar.build_design(draws, 2)).to_array()
        assert summary.per_component_samples.tobytes() == theta.tobytes()


def test_counter_tables():
    # Offset j of _STEPS is j * GOLDEN modulo 2**64, and _ROUNDS holds the
    # even offsets (u) over the odd ones (v), each row contiguous. Both are
    # shared and _uniforms steps its argument in place, so neither, nor a
    # slice of either, can be written.
    golden = int(_k._GOLDEN)
    steps = _k._STEPS.tolist()
    assert steps == [j * golden & _MASK for j in range(len(steps))]
    assert _k._ROUNDS.tolist() == [steps[0::2], steps[1::2]]
    assert _k._ROUNDS.flags.c_contiguous
    for table in (_k._STEPS, _k._ROUNDS, _k._STEPS[:4], _k._ROUNDS[:, :4]):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            _k._uniforms(table)


def test_one_lane_is_the_scalar_loop():
    # Case 1's 19 lags at counts near 1e17, where the order of the rate sum
    # shows: a set of one lane is the scalar loop's path.
    params = ModelParams(nu=1e17, kernel=tuple(0.25 ** k for k in range(1, 20)))
    for sid in range(5):
        counts, overflow_at = simulate_lanes(params, 30, 11, [sid], 1e300)
        x, step = scalar_path(params, 30, 11, sid, 1e300)
        assert overflow_at.tolist() == [step] == [-1]
        assert counts[:, 0].tolist() == x.tolist()


# The uniforms _uniforms makes: (z + 1/2) * 2**-52 for 52-bit z.
grid_uniforms = st.integers(0, 2 ** 52 - 1).map(lambda z: (z + 0.5) * 2.0 ** -52)


def abs_tie_bound(k, lam, us, v, a, b, inv_alpha):
    """The sum of the magnitudes of the log test's terms, each by np.abs."""
    return (np.abs(np.log(v)) + np.abs(np.log(inv_alpha)) + np.abs(np.log(a / (us * us) + b))
            + np.abs(k * np.log(lam)) + lam + _k._log_factorials(k))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(10.0, 1e6), grid_uniforms, grid_uniforms),
                min_size=1, max_size=20))
def test_tie_bound_without_abs(cells):
    # On slow cells (k >= 0) the log test's bound, summed from the terms'
    # known signs, is the sum of their magnitudes bit for bit: at one rate
    # per cell (lanes) and at the first cell's rate as floats (blocks).
    # inv_alpha is made from b as _ptrs_round makes it.
    lam, wu, wv = (np.array(c) for c in zip(*cells))
    per_cell = _k._rate_constants(lam, np.empty((3, lam.shape[0])))
    shared = [float(c[0]) for c in _k._rate_constants(lam[:1], np.empty((3, 1)))]
    for rate, (a, b, _) in ((lam, per_cell), (float(lam[0]), shared)):
        inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
        u = wu - 0.5
        us = 0.5 - np.abs(u)
        k = np.floor((2.0 * a / us + b) * u + rate + 0.43)
        slow = k >= 0.0
        if not slow.any():
            continue
        if isinstance(rate, np.ndarray):
            rate, a, b, inv_alpha = rate[slow], a[slow], b[slow], inv_alpha[slow]
        args = (k[slow], rate, us[slow], wv[slow], a, b, inv_alpha)
        assert _k._log_sides(*args)[2].tobytes() == abs_tie_bound(*args).tobytes()


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


def scalar_cdf(lam):
    """F_0..F_199, the sums the scalar sequential search compares its uniform
    with, by its recursion."""
    p = f = math.exp(-lam)
    cdf = [f]
    for k in range(1, 200):
        p *= lam / k
        f += p
        cdf.append(f)
    return cdf


def edge_uniforms(lam):
    """The uniforms where the search's draw changes: each F_k and the float
    just past it (F_0 and the last F that moves among them), between the
    smallest and the largest uniform."""
    cdf = scalar_cdf(lam)
    return [2.0 ** -53, *cdf, *np.nextafter(cdf, 1.0).tolist(), 1.0 - 2.0 ** -53]


def scalar_search(lam, uniforms):
    return [_k._poisson_draw(lam, lambda u=u: u) for u in uniforms]


@pytest.mark.parametrize("lam", [1e-300, 0.4, 3.0, 9.99, 9.999999])
def test_inversion_table_ends_match_scalar_search(lam):
    # The inversion kernel ends its sum once no uniform is past F; the
    # scalar loop searches on to its cap of 200. Both must draw alike at
    # the smallest uniform, at every F_k (both ends of the CDF among them)
    # and just past it, and at the largest uniform, at a float rate and at
    # one rate per uniform. At 9.99 the CDF ends below 1 - 2**-53, so the
    # uniforms past it draw the cap; at the other rates it ends at 1.
    edges = edge_uniforms(lam)
    want = scalar_search(lam, edges)
    assert _k._inversion(lam, np.array(edges)).tolist() == want
    assert _k._inversion(np.full(len(edges), lam), np.array(edges)).tolist() == want
    assert [k == 200 for k in want] == [u > scalar_cdf(lam)[-1] for u in edges]
    assert (want[-1] == 200) == (lam == 9.99)


_RATES = st.floats(0.0, 10.0, exclude_min=True, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(_RATES, st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                st.integers(0, 401))),
    min_size=1, max_size=16,
))
def test_inversion_matches_scalar_search(cells):
    # Each cell is a rate and a uniform in (0, 1), or the index of one of
    # that rate's edge uniforms. One rate per uniform is the lane engine's
    # call; the first rate as a float over every uniform is a block's.
    lam = [r for r, _ in cells]
    u = [edge_uniforms(r)[w] if isinstance(w, int) else w for r, w in cells]
    want = [scalar_search(r, [v])[0] for r, v in zip(lam, u)]
    assert _k._inversion(np.array(lam), np.array(u)).tolist() == want
    assert _k._inversion(lam[0], np.array(u)).tolist() == scalar_search(lam[0], u)


def test_shared_log_factorials_across_threads(monkeypatch):
    # The block sampler and the lane engine share one log k! table and
    # nothing else. Threads of both that grow the table at once, each to a
    # different size, must each draw what they draw alone: the block
    # sampler the scalar loop's values, the lanes their single-threaded
    # counts. The block draws span several blocks, so block state shared
    # between calls would show too.
    rates = [1e3 * 2 ** j for j in range(6)]
    want = [counted_draws(lam, RngStream(4, j).state(), 20000)[0] for j, lam in enumerate(rates)]
    want_lanes = [simulate_lanes(ModelParams(nu=lam), 30, 5, range(40))[0].tolist()
                  for lam in rates]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(_k, "_LOGFACT", _k._Grown(_k._LOGFACT.make))
            with ThreadPoolExecutor(max_workers=2 * len(rates)) as pool:
                futures = [
                    pool.submit(inar.poisson_sample, lam, RngStream(4, j), 20000)
                    for j, lam in enumerate(rates)
                ]
                lanes = [
                    pool.submit(simulate_lanes, ModelParams(nu=lam), 30, 5, range(40))
                    for lam in rates
                ]
                got = [f.result(timeout=60).tolist() for f in futures]
                got_lanes = [f.result(timeout=60)[0].tolist() for f in lanes]
            assert got == want
            assert got_lanes == want_lanes
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=40, deadline=None)
@given(
    nu=constant_rates,
    kernel=st.sampled_from([(), (0.0,), (0.0, 0.0, 0.0)]),
    T=st.one_of(st.integers(1, 40), st.sampled_from([B, B + 1])),
    seed=st.integers(-(2 ** 63), 2 ** 64 - 1),
    stream_id=st.integers(0, 2 ** 64 - 1),
    cap=st.floats(0.0, 3e5, exclude_min=True),
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
    """One count path of length T: all zero, constant, sparse or busy, with
    busy counts up to 10**6, whose lagged products reach 10**12."""
    return st.one_of(
        st.just([0] * T),
        st.integers(0, 400).map(lambda c: [c] * T),
        st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=T, max_size=T),
        st.lists(st.integers(0, 300), min_size=T, max_size=T),
        st.lists(st.integers(0, 10**6), min_size=T, max_size=T),
    )


def integer_design(x, p):
    """(Y, b) from exact int64 sums over the zero-padded lag matrix."""
    T = x.shape[0]
    z = np.zeros((T, p + 1), dtype=np.int64)
    z[:, 0] = 1
    for j in range(1, p + 1):
        z[j:, j] = x[: T - j]
    return (z.T @ z) / T, (z.T @ x) / T


def assert_designs_exact(counts, p, y, b):
    """Each lane of a stacked design is C-contiguous and equals the exact
    integer design and build_design's, bit for bit."""
    n = counts.shape[1]
    assert y.shape == (n, p + 1, p + 1) and b.shape == (n, p + 1)
    assert y.flags.c_contiguous and b.flags.c_contiguous
    for j in range(n):
        system = inar.build_design(counts[:, j], p)
        assert y[j].tobytes() == system.Y.tobytes()
        assert b[j].tobytes() == system.b.tobytes()
        y_int, b_int = integer_design(counts[:, j], p)
        y_int[0, 0] = 1.0
        assert y_int.tobytes() == system.Y.tobytes()
        assert b_int.tobytes() == system.b.tobytes()


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stacked_fit_matches_one_lane(data):
    T = data.draw(st.integers(1, 30), label="T")
    p = data.draw(st.integers(0, T - 1), label="p")
    lanes = data.draw(st.lists(lane_counts(T), min_size=1, max_size=12), label="lanes")
    # Chunks of a few lanes, so that a stack crosses chunk edges.
    chunk = data.draw(st.integers(1, 5), label="chunk")
    counts = np.array(lanes, dtype=np.int64).T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_k, "_PRODUCT_CHUNK", chunk)
        y, b = _k.design_build(counts.astype(np.float64), p)
        theta, fitted = inar.fit_lanes(counts, p)
    assert theta.shape == (len(lanes), p + 1) and fitted.shape == (len(lanes),)
    assert_designs_exact(counts, p, y, b)
    for j in range(len(lanes)):
        system = inar.build_design(counts[:, j], p)
        try:
            want = inar.solve_cls(system).to_array()
        except SingularDesign:
            assert not fitted[j] and np.isnan(theta[j]).all()
            continue
        assert fitted[j] and theta[j].tobytes() == want.tobytes()


@pytest.mark.parametrize("T", [1, 2, 9, 40])
@pytest.mark.parametrize("n_lanes", [0, 1, 7])
def test_design_build_edges(monkeypatch, T, n_lanes):
    # p = T - 1 (one head row, every other row in the tail) and p = 0, on
    # no lanes, one lane and lanes in chunks of 3.
    monkeypatch.setattr(_k, "_PRODUCT_CHUNK", 3)
    counts = np.random.default_rng(T).integers(0, 10**6, size=(T, n_lanes))
    for p in {0, T - 1}:
        y, b = _k.design_build(counts.astype(np.float64), p)
        assert_designs_exact(counts, p, y, b)


def test_fits_independent_of_layout(case1_params):
    # The same stack in lanes-fastest order gives every LaneFits field
    # byte for byte.
    counts, _ = simulate_lanes(case1_params, 200, 5, range(1, 41))
    for p in (4, 10):
        y, b = _k.design_build(counts, p)
        strided_y = np.moveaxis(np.ascontiguousarray(np.moveaxis(y, 0, -1)), -1, 0)
        strided_b = np.asfortranarray(b)
        assert not strided_y.flags.c_contiguous and not strided_b.flags.c_contiguous
        want = _k.cls_solve(y, b)
        got = _k.cls_solve(strided_y, strided_b)
        for name, g, w in zip(want._fields, got, want):
            assert g.tobytes() == w.tobytes(), name


def test_lane_fits_every_status_in_one_stack():
    # One stack holding every status between ordinary lanes: each lane's
    # estimate, status, rcond, residual and inverse are those of its
    # one-lane solve, and the inverse is inv's where Y is finite and
    # invertible.
    eye = np.eye(3)
    y = np.stack([eye * 2.0, eye, np.diag([1.0, 1.0, 0.0]), eye * 0.5, eye * 4.0])
    b = np.array([[1.0, 2.0, 3.0], [np.nan, 0.0, 0.0], [1.0, 1.0, 1.0], [1e308] * 3,
                  [4.0, 0.0, 1.0]])
    # Lane 3's solution overflows to inf, its residual check fails, and
    # no lane raises a floating-point warning.
    fits = _k.cls_solve(y, b)
    ones = [_k.cls_solve(y[j : j + 1], b[j : j + 1]) for j in range(5)]
    assert fits.status.tolist() == [
        _k.FIT_OK, _k.FIT_NONFINITE, _k.FIT_RCOND, _k.FIT_RESIDUAL, _k.FIT_OK]
    for j, one in enumerate(ones):
        for got, want in zip(fits, one):
            assert got[j].tobytes() == want[0].tobytes()
    assert np.isnan(fits.inv[1]).all() and np.isnan(fits.inv[2]).all()
    for j in (0, 3, 4):
        assert fits.inv[j].tobytes() == np.linalg.inv(y[j]).tobytes()


@pytest.mark.parametrize("m", [1, 4])
def test_stack_of_no_lanes(m):
    # Empty fields of the shapes and types of a stack with lanes.
    fits = _k.cls_solve(np.empty((0, m, m)), np.empty((0, m)))
    assert {name: (v.shape, v.dtype) for name, v in fits._asdict().items()} == {
        "theta": ((0, m), np.float64), "status": ((0,), np.int8),
        "rcond": ((0,), np.float64), "resid": ((0,), np.float64),
        "inv": ((0, m, m), np.float64)}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_non_finite_lanes_anywhere(data):
    # NaN, +inf or -inf written into some lanes' Y or b: those lanes are
    # FIT_NONFINITE, and every lane's LaneFits fields are its one-lane
    # solve's bytes. lane_counts draws all-zero lanes too, whose exactly
    # singular Y (p >= 1) sends the stack to _inverses' masked fallback.
    T = data.draw(st.integers(1, 30), label="T")
    p = data.draw(st.integers(0, T - 1), label="p")
    lanes = data.draw(st.lists(lane_counts(T), min_size=1, max_size=12), label="lanes")
    y, b = _k.design_build(np.array(lanes, dtype=np.float64).T, p)
    spots = st.tuples(
        st.integers(0, len(lanes) - 1), st.booleans(), st.integers(0, (p + 1) ** 2 - 1),
        st.sampled_from([np.nan, np.inf, -np.inf]))
    bad = set()
    for j, in_y, k, value in data.draw(st.lists(spots, min_size=1, max_size=6), label="spots"):
        if in_y:
            y[j].flat[k] = value
        else:
            b[j, k % (p + 1)] = value
        bad.add(j)
    fits = _k.cls_solve(y, b)
    for j in range(len(lanes)):
        one = _k.cls_solve(y[j : j + 1], b[j : j + 1])
        for name, got, want in zip(fits._fields, fits, one):
            assert got[j].tobytes() == want[0].tobytes(), name
        assert (fits.status[j] == _k.FIT_NONFINITE) == (j in bad)


@pytest.mark.parametrize("eps, status", [(1.01e-12, _k.FIT_OK), (0.99e-12, _k.FIT_RCOND)])
def test_screen_edge_goes_to_eigh(eps, status):
    # Y = diag(1, ..., 1, eps) with m = 21: the Frobenius bound, about
    # eps / 4.5, cannot clear the threshold, so the eigenvalue ratio eps
    # decides the lane, in a stack between ordinary lanes as alone.
    m = 21
    y = np.diag(np.r_[np.ones(m - 1), eps])
    b = np.ones(m)
    fits = _k.cls_solve(np.stack([np.eye(m), y, 2.0 * np.eye(m)]), np.stack([b, b, b]))
    one = _k.cls_solve(y[None], b[None])
    system = inar.DesignSystem(Y=y, b=b, T=m, p=m - 1)
    assert fits.status.tolist() == [_k.FIT_OK, status, _k.FIT_OK]
    assert fits.rcond[1] == one.rcond[0] == inar.rcond(system) == eps
    assert fits.theta[1].tobytes() == one.theta[0].tobytes()
    if status == _k.FIT_OK:
        assert inar.solve_cls(system).to_array().tobytes() == one.theta[0].tobytes()
    else:
        with pytest.raises(SingularDesign, match=f"reciprocal condition {eps:.3e} below"):
            inar.solve_cls(system)


def test_failed_lanes_keep_other_lanes(case1_params):
    # One stack with a non-finite lane and an all-zero lane among ordinary
    # ones: each failed lane gets its own status, and every lane gets
    # exactly its one-lane fit. The all-zero lane's Y = diag(1, 0, ..., 0)
    # is exactly singular, so the batched inverse of the finite lanes
    # raises. An ordinary lane's rcond is the Frobenius bound, at most the
    # eigenvalue ratio of inar.rcond.
    counts, _ = simulate_lanes(case1_params, 200, 5, range(1, 21))
    counts[50, 3] = np.nan
    counts[:, 11] = 0.0
    y, b = _k.design_build(counts, 4)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(np.delete(y, 3, axis=0))
    fits = _k.cls_solve(y, b)
    failed = {3: _k.FIT_NONFINITE, 11: _k.FIT_RCOND}
    assert fits.status.tolist() == [failed.get(j, _k.FIT_OK) for j in range(20)]
    assert np.isnan(fits.rcond[3]) and fits.rcond[11] == 0.0
    for j in range(20):
        one = _k.cls_solve(y[j : j + 1], b[j : j + 1])
        for got, want in zip(fits, one):
            assert got[j].tobytes() == want[0].tobytes()
        system = inar.build_design(counts[:, j], 4)
        if j in failed:
            assert np.isnan(fits.theta[j]).all()
            with pytest.raises(SingularDesign):
                inar.solve_cls(system)
            continue
        assert fits.theta[j].tobytes() == inar.solve_cls(system).to_array().tobytes()
        assert _k.RCOND_THRESHOLD <= fits.rcond[j] <= inar.rcond(system)


def test_singular_lanes_anywhere_in_the_stack():
    # Exactly singular lanes first, in the middle and last of a stack: each
    # gets a NaN inverse, and every other lane its one-lane np.linalg.inv
    # bit for bit.
    rng = np.random.default_rng(83)
    m, n = 4, 12
    a = rng.normal(size=(n, m, m))
    y = a @ a.mT + m * np.eye(m)
    twin = rng.integers(-5, 6, size=(m, m)).astype(np.float64)
    twin[2] = twin[0]
    singular = {0: np.zeros((m, m)), 5: twin, n - 1: np.diag([1.0, 2.0, 0.0, 3.0])}
    for j, s in singular.items():
        y[j] = s
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(s)
    want = {j: np.linalg.inv(y[j]) for j in range(n) if j not in singular}
    g = _k._inverses(y)
    for j in range(n):
        if j in singular:
            assert np.isnan(g[j]).all()
        else:
            assert g[j].tobytes() == want[j].tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_inverses_match_one_lane_inv(data):
    # Small-integer stacks, many of them with exactly singular lanes: each
    # lane's inverse is its own np.linalg.inv's bytes, NaN where that call
    # raises.
    m = data.draw(st.integers(1, 5), label="m")
    n = data.draw(st.integers(1, 10), label="n")
    entries = st.lists(st.integers(-2, 2), min_size=n * m * m, max_size=n * m * m)
    y = np.array(data.draw(entries, label="entries"), dtype=np.float64).reshape(n, m, m)
    want = np.full_like(y, np.nan)
    for j in range(n):
        try:
            want[j] = np.linalg.inv(y[j])
        except np.linalg.LinAlgError:
            pass
    assert _k._inverses(y).tobytes() == want.tobytes()


_MASK = (1 << 64) - 1
_GOLDEN_INT, _MIX1_INT, _MIX2_INT = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def splitmix_uniform(state):
    """The next state and uniform of splitmix64 from ``state``, in Python
    ints: the uniform is the mix's top 52 bits z as (z + 1/2) * 2**-52."""
    state = (state + _GOLDEN_INT) & _MASK
    z = ((state ^ (state >> 30)) * _MIX1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK
    z ^= z >> 31
    return state, ((z >> 12) + 0.5) * 2.0 ** -52


def _unshift(y, k):
    # The x with x ^ (x >> k) == y.
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def state_before(mixed):
    """The state whose splitmix64 step mixes to the 64-bit ``mixed``: the
    finalizer inverted step by step, less one increment."""
    z = _unshift(mixed, 31)
    z = _unshift((z * pow(_MIX2_INT, -1, 1 << 64)) & _MASK, 27)
    z = _unshift((z * pow(_MIX1_INT, -1, 1 << 64)) & _MASK, 30)
    return (z - _GOLDEN_INT) & _MASK


def edge_states():
    # States whose mix has top 52 bits 0 or 2**52 - 1: the smallest and
    # largest uniforms, 2**-53 and 1 - 2**-53.
    top = st.sampled_from([0, (1 << 52) - 1])
    return st.builds(lambda t, low: state_before((t << 12) | low), top, st.integers(0, 4095))


@settings(max_examples=200, deadline=None)
@given(states=st.lists(st.integers(0, _MASK) | edge_states(), min_size=1, max_size=40))
@example(states=[0, _MASK])
def test_uniforms_match_python_splitmix(states):
    # _uniforms steps every state in place and returns each uniform, bit
    # for bit those of a pure-Python splitmix64 sharing no code with it.
    state = np.array(states, dtype=np.uint64)
    u = _k._uniforms(state)
    want = [splitmix_uniform(s) for s in states]
    assert state.tolist() == [s for s, _ in want]
    assert u.dtype == np.float64 and u.tolist() == [w for _, w in want]
    assert ((0.0 < u) & (u < 1.0)).all()


def test_edge_states_reach_the_extreme_uniforms():
    # The inverse finalizer finds states for both ends of (0, 1).
    for top, want in ((0, 2.0 ** -53), ((1 << 52) - 1, 1.0 - 2.0 ** -53)):
        s = state_before((top << 12) | 77)
        assert splitmix_uniform(s)[1] == want
        assert _k._uniforms(np.array([s], dtype=np.uint64)).tolist() == [want]


def lag_matrix_k_hat(x, theta):
    """K_hat at p = 0 by the general route, with its lag matrix of ones:
    the residual from the matrix product, weighted rows, symmetrised."""
    n_steps, n_lanes = x.shape
    lags = np.empty((n_lanes, n_steps, 1))
    lags[..., 0] = 1.0
    resid = lags @ theta[..., None]
    resid -= x.T[..., None]
    resid *= resid
    k_hat = (lags * resid).mT @ lags
    k_hat = k_hat + k_hat.mT
    k_hat *= 0.5
    k_hat *= 4.0 / n_steps
    return k_hat


@pytest.mark.parametrize("T", [10, 1000, 100_000])
def test_iid_score_variance_is_the_lag_matrix_route(T):
    # At p = 0 K_hat skips the lag matrix; K_hat and Sigma equal the lag
    # matrix route's bit for bit on one lane, on three and on more lanes
    # than one chunk holds, and a lane with a NaN theta gets NaN.
    rng = np.random.default_rng(T)
    for n_lanes in (1, 3, _k._LAG_VALUES // T + 5):
        x = rng.poisson(150.0, size=(T, n_lanes)).astype(np.float64)
        x[:, -1] = rng.gamma(2.0, 40.0, size=T)  # a non-integer path
        y, b = _k.design_build(x, 0)
        fits = _k.cls_solve(y, b)
        theta = fits.theta.copy()
        theta[:, 0] += rng.normal(size=n_lanes)  # off the fit, as a bare estimate
        if n_lanes > 1:
            theta[1] = np.nan
        got = _k.score_variance(x, theta)
        want = lag_matrix_k_hat(x, theta)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[1]).all() if n_lanes > 1 else np.isfinite(got).all()
        j_hat, g = 2.0 * y, 0.5 * fits.inv
        assert (_k.sandwich_solve(j_hat, g, got).tobytes()
                == _k.sandwich_solve(j_hat, g, want).tobytes())


@pytest.mark.parametrize("T", [10, 1000, 100_000])
def test_shared_ones_column_is_a_fresh_one(monkeypatch, T):
    # The p = 0 K_hat sums each lane's squared residual against the first
    # T rows of one read-only column of ones: the same bytes as against a
    # fresh column, on one lane and on three, also after a longer T has
    # grown the column.
    monkeypatch.setattr(_k, "_ONES", _k._Grown(lambda size: np.ones((size, 1))))
    rng = np.random.default_rng(T)
    for grown in (False, True):
        if grown:
            assert _k._ONES(3 * T + 1).shape == (3 * T + 1, 1)
        column = _k._ONES(T)
        assert column.shape == (T, 1) and not column.flags.writeable
        for n_lanes in (1, 3):
            r = rng.gamma(2.0, 40.0, size=(n_lanes, T, 1)) ** 2
            assert (r.mT @ column).tobytes() == (r.mT @ np.ones((T, 1))).tobytes()


@pytest.mark.parametrize("n_lanes", [1, 3, 130])
@pytest.mark.parametrize("m", [1, 2, 11, 21, 61])
@pytest.mark.parametrize("square", [False, True])
def test_long_residual_product_is_long_double_matmul(n_lanes, m, square):
    # The refinement residual's Y x by vecdot is the long double matmul
    # bit for bit (equal values with equal signs; the padding bytes of a
    # long double are not compared), on (m, 1) and (m, m) right-hand
    # sides, and so is inverse_solve built on it.
    rng = np.random.default_rng(1000 * m + n_lanes)
    a = rng.normal(size=(n_lanes, m, m))
    y = a @ a.mT + m * np.eye(m)
    r = rng.normal(size=(n_lanes, m, m if square else 1))
    r *= 10.0 ** rng.integers(-8, 9, size=r.shape)
    g = np.linalg.inv(y)
    x = g @ r
    got = _k._long_product(y, x)
    want = y.astype(np.longdouble) @ x
    assert got.dtype == want.dtype and got.shape == want.shape
    assert (got == want).all() and (np.signbit(got) == np.signbit(want)).all()
    want_x = x + g @ (r - want).astype(np.float64)
    assert _k.inverse_solve(y, g, r).tobytes() == want_x.tobytes()
